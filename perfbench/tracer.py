"""Outside-in timing of the measim pipeline: iteration stamps and span tracing.

Nothing here edits src/measim.  Wrappers replace the module attribute that a
caller looks up at call time, so each one is installed in the namespace that
makes the call: `training` imports `rollout_batch`, `adapt_step` and
`impute_batch` by name, `episodes` and `evaluate` import `impute_batch` by name,
while `nn.forward`, `nn.backward`, `nn.optimizer_step` and `rngs.substream` are
looked up on their module, so one patch there covers every caller.

Wrappers only read the clock, count, and read shapes of arguments and results.
They draw from no RNG and copy no array, so a traced run produces the same
bits as an untraced one (the benchmark checks this through the run digest).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from measim import episodes, evaluate, imputer, masks, nn, rngs, training

clock = time.perf_counter

# Phase tags of the joint loop, by call order within one iteration.
PHASES = ("xbar", "e1_rollout", "e1_reward", "meta_adapt", "e2_rollout",
          "e2_reward", "actor_grad", "critic_fit", "e3_rollout", "real_adapt")
ROLES = ("actor", "critic", "imputer")
FORWARD = {role: f"nn.forward.{role}" for role in ROLES}
BACKWARD = {role: f"nn.backward.{role}" for role in ROLES}


def net_role(net) -> str:
    """actor: 2D -> D scores; critic: 2D -> 1; anything else is the imputer."""
    dims = net.layer_dims
    if dims[-1] == 1:
        return "critic"
    if dims[0] == 2 * dims[-1]:
        return "actor"
    return "imputer"


class Patches:
    """Module attributes replaced by wrappers, restorable in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def restore(self) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)


class IterationClock:
    """Stamps joint-loop iterations from outside the loop.

    `training.joint_train` calls `draw_batch` exactly once at the start of
    each iteration and `plateaued` exactly once at its end, so an iteration
    runs from the draw_batch entry to the plateaued exit.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.tracer: "Tracer | None" = None
        self._patches = Patches()

    def install(self) -> None:
        draw_batch, plateaued = training.draw_batch, training.plateaued

        def stamped_draw_batch(*args, **kwargs):
            t = clock()
            self.starts.append(t)
            if self.tracer is not None:
                self.tracer.begin_iteration(t)
            return draw_batch(*args, **kwargs)

        def stamped_plateaued(*args, **kwargs):
            out = plateaued(*args, **kwargs)
            t = clock()
            self.ends.append(t)
            if self.tracer is not None:
                self.tracer.end_iteration(t)
            return out

        self._patches.set(training, "draw_batch", stamped_draw_batch)
        self._patches.set(training, "plateaued", stamped_plateaued)

    def uninstall(self) -> None:
        self._patches.restore()

    def take_ms(self) -> list[float]:
        """Durations of the iterations stamped since the last call, in ms."""
        if len(self.starts) != len(self.ends):
            raise RuntimeError(f"{len(self.starts)} iteration starts but {len(self.ends)} ends")
        out = [(e - s) * 1e3 for s, e in zip(self.starts, self.ends)]
        self.starts.clear()
        self.ends.clear()
        return out


class NullTracer:
    """Stand-in used by untraced runs: benchmark-level spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Spans (name, start, end, parent, iteration, phase) kept in memory.

    Counts (rows, steps, computed flops, waste ratios) are recorded at the
    same boundaries and kept apart from the timings.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.iteration = -1             # joint iteration in progress, -1 outside
        self.iterations = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._phase_calls: dict[str, int] = defaultdict(int)
        self._iter_rec = None
        self._e1_steps = None
        self._in_e1 = False
        self._patches = Patches()

    # -- span recording -------------------------------------------------

    def _push(self, name: str, phase: str | None = None, t: float | None = None) -> list:
        """Opens a span as a child of the innermost open one; starts it at t,
        or now."""
        stack = self.stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration, phase]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = clock() if t is None else t
        return rec

    def _pop(self, rec: list, t: float | None = None) -> None:
        rec[2] = clock() if t is None else t
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Benchmark-level span around a call made by the benchmark itself."""
        rec = self._push(name)
        try:
            yield
        finally:
            self._pop(rec)

    def begin_iteration(self, t: float) -> None:
        self.iteration = self.iterations
        self.iterations += 1
        self._phase_calls.clear()
        self._e1_steps = None
        self._iter_rec = self._push("training.iteration", t=t)

    def end_iteration(self, t: float) -> None:
        if not self.stack or self.spans[self.stack[-1]] is not self._iter_rec:
            raise RuntimeError("iteration span closed out of order")
        self._pop(self._iter_rec, t)
        self.iteration = -1

    def wrap(self, fn, name, phases: tuple[str, ...] | None = None,
             rows_arg: int | None = None, before=None, around=None, after=None):
        """Span wrapper.  name is the span name, or a function of the call's
        arguments that returns it; phases names the loop phase by call order
        within an iteration; rows_arg counts rows of that positional argument;
        before sees (args, kwargs) and after sees (args, result), both outside
        the span; around(args) returns a context for the call."""
        counts, phase_calls, push, pop = self.counts, self._phase_calls, self._push, self._pop
        named = callable(name)

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if named else name
            phase = None
            if phases is not None:
                k = phase_calls[span_name]
                phase_calls[span_name] = k + 1
                phase = phases[min(k, len(phases) - 1)]
            if rows_arg is not None:
                counts[span_name + ".rows"] += args[rows_arg].shape[0]
            if before is not None:
                before(args, kwargs)
            scope = around(args) if around is not None else None
            rec = push(span_name, phase)
            try:
                if scope is None:
                    out = fn(*args, **kwargs)
                else:
                    with scope:
                        out = fn(*args, **kwargs)
            finally:
                pop(rec)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- nn counts: rows, computed flops, train-mode actor forwards --------

    def _count_forward(self, args, kwargs) -> None:
        net, x = args[0], args[1]
        role = net_role(net)
        name = FORWARD[role]
        rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
        dims = net.layer_dims
        macs = sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1))
        counts = self.counts
        counts[name + ".rows"] += rows
        counts[name + ".flop"] += 2 * rows * macs
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
        if role == "actor" and mode == "train":
            counts["nn.forward.actor.train_calls"] += 1
        if role == "critic" and self._in_e1:
            counts["policy.critic_rows_e1"] += rows

    # -- E1 bookkeeping for the critic waste ratio ------------------------

    def _note_steps(self, args, out) -> None:
        self.counts["episodes.rollout_batch.steps"] += len(out.steps)

    def _note_loop_rollout(self, args, out) -> None:
        self._note_steps(args, out)
        if self._e1_steps is None:          # first rollout of the iteration is E1
            self._e1_steps = out.steps
            self.counts["policy.e1_states"] += sum(s.actions.shape[0] for s in out.steps)

    @contextlib.contextmanager
    def _e1_scope(self, args):
        outer = self._in_e1
        self._in_e1 = args[1] is self._e1_steps
        try:
            yield
        finally:
            self._in_e1 = outer

    def _note_kept(self, args, out) -> None:
        self.counts["imputer.loss_unsupervised.rows_in"] += args[1].shape[0]
        self.counts["imputer.loss_unsupervised.rows_kept"] += (
            args[1].shape[0] - out[2]["skipped"])

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        p, w = self._patches, self.wrap
        p.set(nn, "forward", w(nn.forward, lambda net, *a, **k: FORWARD[net_role(net)],
                               before=self._count_forward))
        p.set(nn, "backward", w(nn.backward, lambda net, *a, **k: BACKWARD[net_role(net)]))
        p.set(nn, "optimizer_step", w(nn.optimizer_step, "nn.optimizer_step"))
        p.set(rngs, "substream", w(rngs.substream, "rngs.substream"))
        for name in ("mask_dataset", "save_missing_csv", "load_missing_csv"):
            p.set(masks, name, w(getattr(masks, name), f"masks.{name}"))

        impute = imputer.impute_batch
        p.set(training, "impute_batch",
              w(impute, "imputer.impute_batch", phases=("xbar",), rows_arg=1))
        p.set(episodes, "impute_batch", w(impute, "imputer.impute_batch", rows_arg=1))
        p.set(evaluate, "impute_batch", w(impute, "imputer.impute_batch", rows_arg=1))
        p.set(imputer, "interpolate_batch",
              w(imputer.interpolate_batch, "imputer.interpolate_batch", rows_arg=0))
        p.set(imputer, "loss_unsupervised",
              w(imputer.loss_unsupervised, "imputer.loss_unsupervised", after=self._note_kept))
        p.set(imputer, "loss_supervised_batch",
              w(imputer.loss_supervised_batch, "imputer.loss_supervised_batch"))
        p.set(imputer, "smoothness_penalty",
              w(imputer.smoothness_penalty, "imputer.smoothness_penalty"))
        p.set(training, "adapt_step",
              w(training.adapt_step, "imputer.adapt_step", phases=("meta_adapt", "real_adapt")))

        for name in ("masked_softmax", "sample_actions", "flatten_explore"):
            p.set(episodes, name, w(getattr(episodes, name), f"policy.{name}"))
        p.set(training, "advantages_for",
              w(training.advantages_for, "policy.advantages_for", phases=("actor_grad",),
                around=self._e1_scope))
        p.set(training, "actor_gradient",
              w(training.actor_gradient, "policy.actor_gradient", phases=("actor_grad",)))
        p.set(training, "critic_update",
              w(training.critic_update, "policy.critic_update", phases=("critic_fit",),
                around=self._e1_scope))

        p.set(training, "rollout_batch",
              w(training.rollout_batch, "episodes.rollout_batch",
                phases=("e1_rollout", "e2_rollout", "e3_rollout"),
                after=self._note_loop_rollout))
        p.set(evaluate, "rollout_batch",
              w(evaluate.rollout_batch, "episodes.rollout_batch", after=self._note_steps))
        p.set(training, "terminal_rewards_batch",
              w(training.terminal_rewards_batch, "episodes.terminal_rewards_batch",
                phases=("e1_reward", "e2_reward")))
        p.set(evaluate, "rollout_with_selector",
              w(evaluate.rollout_with_selector, "episodes.rollout_with_selector"))

    def uninstall(self) -> None:
        self._patches.restore()

    # -- derived metrics -----------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms (minus child spans)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["ms"] += (end - start) * 1e3
            agg["self_ms"] += (end - start - child[i]) * 1e3
        return out

    def phase_ms(self, warmup: int) -> tuple[dict[str, float], int]:
        """Mean ms per joint iteration of each phase, iterations >= warmup."""
        per_iter: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, it, phase in self.spans:
            if it < warmup:
                continue
            if phase is not None:
                per_iter[it][phase] += end - start
            elif name == "training.iteration":
                per_iter[it]["_iteration"] += end - start
        iters = [v for v in per_iter.values() if "_iteration" in v]
        if not iters:
            raise RuntimeError("no traced joint iterations past warm-up")
        out = {}
        for phase in PHASES:
            out[phase] = 1e3 * sum(v[phase] for v in iters) / len(iters)
        out["loop_self"] = 1e3 * sum(v["_iteration"] - sum(v[p] for p in PHASES)
                                     for v in iters) / len(iters)
        return out, len(iters)

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, it, phase in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "iteration": it,
                                    "phase": phase}) + "\n")

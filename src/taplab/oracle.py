"""Offline optimal and bounding computations.

* ``opt_awake_given_decisions``: exact awake time of the greedy
  most-work-first schedule for a fixed serial/parallel decision vector
  (which is offline-optimal for those decisions);
* ``opt_awake_exhaustive``: exact optimal awake time and a minimizing
  decision vector, by a depth-first search over the decisions in arrival
  order.  Vectors that agree up to an arrival time share the
  most-work-first run up to that time.  After the last arrival every
  leaf is closed in O(1) by McNaughton's wrap-around rule: once all work
  is present, the optimal remaining awake time is max(largest serial
  remaining, total remaining / p).  A branch is pruned only when its
  admissible lower bound is strictly greater than the best value found,
  so every optimal vector is reached and the tie-break (the
  lexicographically first vector in ``tap.tasks`` order, Serial <
  Parallel) is exact.
  The best value starts at an incumbent: every task on the shorter of
  sigma and pi/p, ties Serial.  It is a real vector with its exact value
  and key, so seeding with it changes which nodes are pruned but not the
  answer.
  At each arrival boundary a prefix is dropped when an earlier prefix
  reached a state that dominates it there: no more awake time, no more
  parallel work, serial works pointwise no larger (sorted, missing ones
  0), and a smaller key over the decided tasks.  The dominating state can
  follow the dropped one's schedule job for job, so under every common
  suffix its value is no greater and its key smaller: the dropped prefix
  holds no vector the search could return;
* ``grid_opt``: a discretized exhaustive cross-check oracle for tiny
  instances;
* ``opt_trt_lower``: an admissible lower bound on optimal total response
  time.
"""

from __future__ import annotations

import itertools

from .core import Decision, InstanceTooLargeError, TAP, TapError
from .rationals import Rat, ZERO

#: the most grid steps (total work over the grid) ``grid_opt`` enumerates
GRID_MAX_STEPS = 4096


# --- most-work-first fluid state ---------------------------------------------
#
# The state of a most-work-first schedule is its serial groups, a list of
# (remaining work, count) pairs with strictly descending works (equal
# serial works share processors and sink together), plus the aggregate
# remaining parallel work.  Parallel work is aggregated because the union
# of busy intervals does not depend on how leftover capacity is split
# among parallel jobs.

def _with_serial(groups: list, works) -> list:
    """``groups`` with one more serial job of each work in ``works``."""
    counts = dict(groups)
    for w in works:
        counts[w] = counts.get(w, 0) + 1
    return [(w, counts[w]) for w in sorted(counts, reverse=True)]


def _mwf_run(groups: list, par, p: int, horizon=None) -> tuple:
    """Run most-work-first from (groups, par) for ``horizon`` time units,
    or until no work is left when ``horizon`` is None.

    The p processors serve the largest remaining serial works at rate at
    most 1 each; leftover capacity drains the parallel work.  Returns the
    final (groups, par) and the time during which work was present.
    """
    busy = ZERO
    while groups or par > 0:
        # rates: fill serial groups from the largest work down
        avail = p
        rates = []
        for _, count in groups:
            if avail >= count:
                rates.append(1)
                avail -= count
            elif avail > 0:
                rates.append(Rat(avail, count))
                avail = 0
            else:
                rates.append(0)
        par_rate = avail if par > 0 else 0
        # next structural change: the horizon, a group closing on the group
        # below (or on zero), or the parallel work running out
        dt = None if horizon is None else horizon - busy
        for i, (value, _) in enumerate(groups):
            r = rates[i]
            if r == 0:
                break
            below = i + 1 < len(groups)
            r_next = rates[i + 1] if below else 0
            if r > r_next:
                cand = (value - (groups[i + 1][0] if below else ZERO)) / (r - r_next)
                if dt is None or cand < dt:
                    dt = cand
        if par_rate > 0:
            cand = par / par_rate
            if dt is None or cand < dt:
                dt = cand
        if dt is None or dt <= 0:
            raise TapError("oracle simulation stalled")  # pragma: no cover
        # advance, merging equal works and dropping finished groups
        merged: list = []
        for (value, count), r in zip(groups, rates):
            if r:
                value -= r * dt
                if value == 0:
                    continue
            if merged and merged[-1][0] == value:
                merged[-1] = (value, merged[-1][1] + count)
            else:
                merged.append((value, count))
        groups = merged
        par -= par_rate * dt
        busy += dt
        if horizon is not None and busy == horizon:
            break
    return groups, par, busy


def _arrival_batches(tap: TAP) -> list:
    """Tasks in (arrival, id) order, as (arrival, tasks) per arrival time."""
    batches: list = []
    for task in sorted(tap.tasks, key=lambda t: (t.arrival, t.id)):
        if batches and batches[-1][0] == task.arrival:
            batches[-1][1].append(task)
        else:
            batches.append((task.arrival, [task]))
    return batches


# --- exact awake time for fixed decisions -----------------------------------

def _mwf_awake(batches: list, p: int, parallel) -> Rat:
    """Awake time of most-work-first over ``batches`` when the tasks for
    which ``parallel(task)`` holds run parallel and the others serial."""
    groups: list = []
    par = ZERO
    awake = ZERO
    for k, (arrival, tasks) in enumerate(batches):
        serial = []
        for task in tasks:
            if parallel(task):
                par += task.pi
            else:
                serial.append(task.sigma)
        horizon = batches[k + 1][0] - arrival if k + 1 < len(batches) else None
        groups, par, busy = _mwf_run(_with_serial(groups, serial), par, p, horizon)
        awake += busy
    return awake


def opt_awake_given_decisions(tap: TAP, decisions: dict) -> Rat:
    """Exact awake time of most-work-first under the given decisions.

    Awake time is the measure of instants with work present.
    """
    if tap.has_deps:
        raise TapError("awake oracle requires a plain TAP (no dependencies)")
    return _mwf_awake(
        _arrival_batches(tap), tap.p,
        lambda task: decisions[task.id] is not Decision.SERIAL,
    )


# --- exact optimum over decision vectors ------------------------------------

def _dominates(state, other) -> bool:
    """True when ``state`` = (key, awake, parallel work, serial works in
    descending order) is no worse than ``other`` in every entry, missing
    serial works counting as 0, and its key is lexicographically smaller."""
    key, awake, par, serial = state
    o_key, o_awake, o_par, o_serial = other
    return (
        awake <= o_awake and par <= o_par and key < o_key
        and len(serial) <= len(o_serial)
        and all(w <= o for w, o in zip(serial, o_serial))
    )


def opt_awake_exhaustive(tap: TAP, bound: int = 20):
    """(optimal awake time, one minimizing decision vector).

    Depth-first search over the tasks in (arrival, id) order, Serial
    first.  Between consecutive arrival times the most-work-first state
    is advanced once per decided prefix.  Inside the last arrival group
    a leaf is awake + max(largest serial work, total work / p), which is
    exactly what most-work-first achieves once all work is present.  A
    node is pruned when awake + max(largest serial work, (present work +
    the least work of the undecided tasks) / p) is strictly greater than
    the best value found.  Ties go to the lexicographically first vector
    in ``tap.tasks`` order with Serial < Parallel.

    The best value starts at an incumbent, the vector in which every task
    takes the shorter of sigma and pi/p (a tie goes to Serial).  It is a
    real vector scored exactly, and pruning stays strict, so every
    optimal vector is still reached and compared with it by key.

    A prefix advanced to the next arrival is dropped when a state that an
    earlier prefix reached at the same arrival dominates it: awake time,
    parallel work and each serial work (sorted, missing ones 0) no
    greater, and a smaller key over the decided tasks in ``tap.tasks``
    order.  The dominating state can copy the dropped one's schedule job
    for job and finish every job no later, and most-work-first is optimal
    for fixed decisions, so under any common suffix its value is no
    greater and its key is smaller: the dropped prefix holds no vector
    that could be returned.
    """
    if tap.n > bound:
        raise InstanceTooLargeError(f"n={tap.n} exceeds oracle bound {bound}")
    if tap.has_deps:
        raise TapError("awake oracle requires a plain TAP (no dependencies)")
    if not tap.tasks:
        return ZERO, {}
    p = tap.p
    batches = _arrival_batches(tap)
    order = [task for _, tasks in batches for task in tasks]
    n = len(order)
    # ends[k]: search position one past arrival group k
    ends = list(itertools.accumulate(len(tasks) for _, tasks in batches))
    # least[i]: least work the tasks at positions i.. can bring
    least = [ZERO] * (n + 1)
    for i in range(n - 1, -1, -1):
        least[i] = least[i + 1] + min(order[i].sigma, order[i].pi)
    position = {task.id: i for i, task in enumerate(order)}
    slots = [position[task.id] for task in tap.tasks]
    # decided[k]: the search positions of groups 0..k, in tap.tasks order
    decided = [[s for s in slots if s < end] for end in ends]
    # seen[k]: the states kept at the arrival of group k + 1
    seen = [[] for _ in batches]
    choice = [0] * n  # 0 = Serial, 1 = Parallel, by search position
    shorter = {task.id: task.pi < p * task.sigma for task in tap.tasks}
    best = _mwf_awake(batches, p, lambda task: shorter[task.id])
    best_key = tuple(int(shorter[task.id]) for task in tap.tasks)

    def branch(k, i, groups, par, serial, awake, smax, work) -> None:
        """Decide position i, in arrival group k.  (groups, par) is the
        state at the group's arrival, ``serial`` the group's serial works
        decided so far, and smax and work include them."""
        nonlocal best, best_key
        if i == ends[k]:
            if k + 1 == len(batches):
                # all work is present: McNaughton's closed form
                value = awake + max(smax, work / p)
                if value <= best:
                    key = tuple(choice[s] for s in slots)
                    if value < best or key < best_key:
                        best, best_key = value, key
                return
            horizon = batches[k + 1][0] - batches[k][0]
            groups, par, busy = _mwf_run(_with_serial(groups, serial), par, p, horizon)
            awake += busy
            state = (
                tuple(choice[s] for s in decided[k]), awake, par,
                tuple(w for w, c in groups for _ in range(c)),
            )
            if any(_dominates(earlier, state) for earlier in seen[k]):
                return
            seen[k].append(state)
            smax = groups[0][0] if groups else ZERO
            work = sum((w * c for w, c in groups), par)
            branch(k + 1, i, groups, par, [], awake, smax, work)
            return
        if awake + max(smax, (work + least[i]) / p) > best:
            return
        task = order[i]
        choice[i] = 0
        serial.append(task.sigma)
        branch(k, i + 1, groups, par, serial, awake, max(smax, task.sigma),
               work + task.sigma)
        serial.pop()
        choice[i] = 1
        branch(k, i + 1, groups, par + task.pi, serial, awake, smax, work + task.pi)

    branch(0, 0, [], ZERO, [], ZERO, ZERO, ZERO)
    decisions = {
        task.id: Decision.PARALLEL if c else Decision.SERIAL
        for task, c in zip(tap.tasks, best_key)
    }
    return best, decisions


# --- discretized exhaustive cross-check -------------------------------------

def _ceil_div(work, grid) -> int:
    q = Rat(work) / Rat(grid)
    return -(-q.numerator // q.denominator)


def grid_opt(tap: TAP, objective: str, grid) -> Rat:
    """Brute-force optimum over decision vectors and integer processor
    splits at every grid step.

    Upper-bounds the true optimum; exact for Awake whenever the optimum is
    achievable on the grid.  Only dominance pruning is applied: an
    allocation that wastes capacity which some job could absorb is never
    preferable, so only capacity-maximal splits are enumerated.
    """
    if tap.n > 4:
        raise InstanceTooLargeError(f"grid_opt requires n <= 4, got {tap.n}")
    if objective not in ("awake", "trt"):
        raise TapError(f"unknown objective {objective!r}")
    grid = Rat(grid)
    for t in tap.tasks:
        if (Rat(t.arrival) / grid).denominator != 1:
            raise TapError(
                f"task {t.id}: arrival {t.arrival} is not a multiple of grid {grid}"
            )
    total_steps = sum(_ceil_div(t.sigma + t.pi, grid) for t in tap.tasks)
    if total_steps > GRID_MAX_STEPS:
        raise InstanceTooLargeError(f"work/grid total {total_steps} > {GRID_MAX_STEPS}")
    p = tap.p
    arr = tuple(int(t.arrival / grid) for t in tap.tasks)
    last_arrival = max(arr, default=0)
    best = None
    for vec in itertools.product((False, True), repeat=tap.n):
        # vec[i] True = Serial; non-aligned works round up to whole steps,
        # which keeps the result an upper bound on the true optimum
        works = tuple(
            _ceil_div(t.sigma if s else t.pi, grid) for t, s in zip(tap.tasks, vec)
        )
        value = _grid_search(p, arr, works, vec, objective, last_arrival)
        if best is None or value < best:
            best = value
    return (best if best is not None else ZERO) * grid


def _grid_search(p, arr, works, serial, objective, last_arrival) -> int:
    """Minimal objective in grid steps, via memoized DFS over steps."""
    n = len(works)
    memo: dict = {}

    def alive_sets(step, rem):
        alive = [i for i in range(n) if arr[i] <= step and rem[i] > 0]
        pending = [i for i in range(n) if arr[i] > step]
        return alive, pending

    def allocations(alive, rem):
        """Capacity-maximal integer splits (serial jobs get 0 or 1)."""
        serial_jobs = [i for i in alive if serial[i]]
        par_jobs = [i for i in alive if not serial[i]]
        out = []
        max_serial = min(len(serial_jobs), p)
        # skipping a serial slot is only ever useful if a parallel job can
        # absorb the processor instead (idling is dominated)
        low = 0 if par_jobs else max_serial
        for k in range(max_serial, low - 1, -1):
            for chosen in itertools.combinations(serial_jobs, k):
                for split in _compositions(p - k, par_jobs, rem):
                    base = {i: 1 for i in chosen}
                    base.update(split)
                    out.append(base)
        return out

    def _compositions(budget, jobs, rem):
        """Integer splits of at most `budget` among `jobs`, each capped by
        its remaining work, wasting capacity only when nothing can absorb it."""
        if not jobs:
            return [{}]
        results = []

        def rec(i, left, acc):
            if i == len(jobs):
                results.append(dict(acc))
                return
            job = jobs[i]
            cap = min(left, rem[job])
            lo = cap if i == len(jobs) - 1 else 0
            # at the last job, take as much as possible (dominance)
            for a in range(cap, lo - 1, -1):
                acc[job] = a
                rec(i + 1, left - a, acc)
                del acc[job]

        rec(0, budget, {})
        return results

    def solve(step, rem):
        alive, pending = alive_sets(step, rem)
        if not alive and not pending:
            return 0
        key = (min(step, last_arrival + 1) if pending else None, rem)
        if key in memo:
            return memo[key]
        if not alive:
            # gap: jump to the next arrival
            nxt = min(arr[i] for i in pending)
            result = solve(nxt, rem)
            memo[key] = result
            return result
        cost_here = 1 if objective == "awake" else len(alive)
        best = None
        for alloc in allocations(alive, rem):
            new_rem = list(rem)
            for i, a in alloc.items():
                new_rem[i] -= a
            value = cost_here + solve(step + 1, tuple(new_rem))
            if best is None or value < best:
                best = value
        memo[key] = best
        return best

    return solve(0, tuple(works))


# --- TRT lower bound --------------------------------------------------------

def opt_trt_lower(tap: TAP) -> Rat:
    """Admissible lower bound on optimal total response time.

    max of (a) the sum of fastest-possible durations min(sigma, pi/p) and
    (b) the exact TRT of preemptive shortest-remaining-first on the relaxed
    instance where every task is perfectly scalable with work sigma and the
    machine has capacity p.
    """
    if tap.has_deps:
        raise TapError("TRT lower bound requires a plain TAP (no dependencies)")
    p = Rat(tap.p)
    lb_a = sum((min(t.sigma, t.pi / p) for t in tap.tasks), ZERO)
    lb_b = _srpt_trt(tap)
    return max(lb_a, lb_b)


def _srpt_trt(tap: TAP) -> Rat:
    """Exact TRT of preemptive SRPT on one speed-p machine with works sigma."""
    p = Rat(tap.p)
    pending = sorted(tap.tasks, key=lambda t: (t.arrival, t.id))
    idx = 0
    now = ZERO
    remaining: dict[int, Rat] = {}
    arrival_of = {t.id: t.arrival for t in tap.tasks}
    trt = ZERO
    while idx < len(pending) or remaining:
        if not remaining:
            now = max(now, pending[idx].arrival)
        while idx < len(pending) and pending[idx].arrival <= now:
            remaining[pending[idx].id] = pending[idx].sigma
            idx += 1
        if not remaining:
            continue
        tid = min(remaining, key=lambda i: (remaining[i], i))
        finish = now + remaining[tid] / p
        nxt = pending[idx].arrival if idx < len(pending) else None
        if nxt is not None and nxt < finish:
            remaining[tid] -= p * (nxt - now)
            if remaining[tid] == 0:
                trt += nxt - arrival_of[tid]
                del remaining[tid]
            now = nxt
        else:
            trt += finish - arrival_of[tid]
            del remaining[tid]
            now = finish
    return trt

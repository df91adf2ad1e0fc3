"""HOL-PJ by its queue-jump mechanism: the reference for the simulator's rule.

The simulator serves HOL-PJ by the static-offset rule "smallest
arrival + D[k]", the same rule as GFCFS and EDD.  The paper defines
HOL-PJ by priority jumps instead.  `holpj_jump` implements those jumps
literally, and `queue_jump_selector()` patches it into `mg1lab.sim` so a
test can compare the two rules on the same seeded draws (`list_loop()`
sends two-class models to the loop that calls it):

    with queue_jump_selector():
        reference = service_start_sequence(model, HOLPJ(D), n_jobs, seed)
"""

from collections import deque
from contextlib import contextmanager
from unittest import mock


def holpj_jump(D: tuple[float, ...], A: list, head: list, tail: list, refill):
    """Selection rule of HOL-PJ by its queue-jump mechanism, with the
    signature of the rules `mg1lab.sim._selector` builds.  It checks the
    ordering rule min(arrival + D): a trace under this rule must equal the
    simulator's HOL-PJ trace bit for bit.  Priority level k holds class-k
    jobs from their arrival; a job moves up one level each time it has
    waited D[k] - D[k-1] there, and the front of the highest nonempty level
    is served.  Level k is class k's waiting jobs that have not jumped,
    A[k][head[k] + out[k]:tail[k]] (entry time = arrival), merged by entry
    time with the jobs that jumped into it, held in up[k] as (entry, class).
    tail[k] is moved on, from head[k] at least, past class k's arrivals
    before `now`; reaching the end of A[k] refills the class first."""
    n = len(D)
    up = [deque() for _ in range(n)]
    out = [0] * n  # class-k waiting jobs that have left level k
    levels = list(zip(range(n), A, up))
    jumps = [(k, A[k], up[k], D[k] - D[k - 1]) for k in range(1, n)]

    def select(now):
        for k in range(n):
            # a job served on arrival at an idle server leaves tail[k] behind
            tail[k] = max(tail[k], head[k])
            while tail[k] == len(A[k]) or A[k][tail[k]] < now:
                if tail[k] == len(A[k]):
                    refill(k)
                else:
                    tail[k] += 1
        # move every due jump, in chronological order of jump instants
        while True:
            due = None
            for k, Ak, q, gap in jumps:
                u = head[k] + out[k]
                if q and (u == tail[k] or q[0][0] < Ak[u]):
                    d, jumped = q[0][0] + gap, True
                elif u < tail[k]:
                    d, jumped = Ak[u] + gap, False
                else:
                    continue
                if d <= now and (due is None or d < due):
                    due, lvl, from_up = d, k, jumped
            if due is None:
                break
            if from_up:
                c = up[lvl].popleft()[1]
            else:
                c = lvl
                out[lvl] += 1
            target = up[lvl - 1]
            # merge by entry time so level order matches chronology
            idx = len(target)
            while idx > 0 and target[idx - 1][0] > due:
                idx -= 1
            target.insert(idx, (due, c))
        for k, Ak, q in levels:
            u = head[k] + out[k]
            if q and (u == tail[k] or q[0][0] < Ak[u]):
                c = q.popleft()[1]
                out[c] -= 1
                return c
            if u < tail[k]:
                return k
        return -1
    return select


def list_loop():
    """Send two-class models through the simulator's list loop, which calls
    a `_selector` rule at every decision, instead of its two-class loop;
    use it as a context manager.  The two-class loop calls no `_selector`
    rule, so a patched rule needs this to be reached at N = 2."""
    return mock.patch("mg1lab.sim._chooser", lambda disc, draw: None)


@contextmanager
def queue_jump_selector():
    """Patch `mg1lab.sim._selector` so every discipline, which must be a
    HOLPJ, runs `holpj_jump`, at every class count; use it as a context
    manager."""
    with list_loop(), mock.patch(
        "mg1lab.sim._selector",
        lambda disc, A, H, head, tail, refill, draw: holpj_jump(disc.D, A, head, tail, refill),
    ):
        yield
